"""The :class:`ReversibleCircuit` container.

A reversible circuit is an ordered cascade of reversible gates over a fixed
number of lines.  Gates are applied left to right: ``circuit.simulate(x)``
feeds the bit vector ``x`` into the first gate of the list.  In the paper's
matrix notation a circuit drawn as ``C_A`` followed by ``C_B`` corresponds to
the operator product ``C_B C_A``; :meth:`ReversibleCircuit.then` follows the
drawing order (``a.then(b)`` applies ``a`` first), which keeps example code
readable.

The class deliberately stays a plain container: simulation and structural
editing live here, while the functional (truth-table) view lives in
:class:`repro.circuits.permutation.Permutation` and synthesis back from a
permutation lives in :mod:`repro.synthesis`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Union

from repro.bits import bits_to_int, int_to_bits
from repro.circuits import bitslice
from repro.circuits.gates import Gate, MCTGate, SwapGate
from repro.exceptions import CircuitError

__all__ = ["ReversibleCircuit"]

BitVector = Union[int, Sequence[int]]


class ReversibleCircuit:
    """An ``n``-line reversible circuit as an ordered list of gates.

    Args:
        num_lines: number of circuit lines ``n`` (inputs == outputs == ``n``).
        gates: optional initial gate cascade, applied left to right.
        name: optional human-readable name (used by I/O and reports).

    The circuit is mutable through :meth:`append` / :meth:`extend`; every
    transforming method (:meth:`inverse`, :meth:`then`, :meth:`remapped`, ...)
    returns a new circuit and leaves the receiver untouched.
    """

    def __init__(
        self,
        num_lines: int,
        gates: Iterable[Gate] = (),
        name: str | None = None,
    ) -> None:
        if num_lines <= 0:
            raise CircuitError(f"a circuit needs at least one line, got {num_lines}")
        self._num_lines = num_lines
        self._gates: list[Gate] = []
        self.name = name
        for gate in gates:
            self.append(gate)

    # -- structure ----------------------------------------------------------
    @property
    def num_lines(self) -> int:
        """Number of circuit lines ``n``."""
        return self._num_lines

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gate cascade as an immutable tuple (left = applied first)."""
        return tuple(self._gates)

    @property
    def num_gates(self) -> int:
        """Total number of gates in the cascade."""
        return len(self._gates)

    @property
    def size(self) -> int:
        """Alias for :attr:`num_gates` (common EDA terminology)."""
        return self.num_gates

    def gate_counts(self) -> dict[str, int]:
        """Histogram of gate kinds, keyed by a short mnemonic.

        MCT gates are keyed by their control count (``"NOT"``, ``"CNOT"``,
        ``"TOFFOLI"``, ``"MCT3"``, ``"MCT4"``, ...), swaps by ``"SWAP"``.
        """
        counts: dict[str, int] = {}
        for gate in self._gates:
            if isinstance(gate, SwapGate):
                key = "SWAP"
            elif isinstance(gate, MCTGate):
                key = {0: "NOT", 1: "CNOT", 2: "TOFFOLI"}.get(
                    gate.num_controls, f"MCT{gate.num_controls}"
                )
            else:  # pragma: no cover - only reachable with user-defined gates
                key = type(gate).__name__
            counts[key] = counts.get(key, 0) + 1
        return counts

    def append(self, gate: Gate) -> "ReversibleCircuit":
        """Append ``gate`` to the cascade (returns ``self`` for chaining)."""
        if gate.max_line >= self._num_lines:
            raise CircuitError(
                f"gate {gate} uses line {gate.max_line} but the circuit has "
                f"only {self._num_lines} lines"
            )
        self._gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "ReversibleCircuit":
        """Append every gate in ``gates`` (returns ``self`` for chaining)."""
        for gate in gates:
            self.append(gate)
        return self

    def copy(self, name: str | None = None) -> "ReversibleCircuit":
        """A shallow copy (gates are immutable, so sharing them is safe)."""
        return ReversibleCircuit(self._num_lines, self._gates, name or self.name)

    # -- semantics ----------------------------------------------------------
    def _coerce_input(self, value: BitVector) -> int:
        if isinstance(value, int):
            if value < 0 or value >> self._num_lines:
                raise CircuitError(
                    f"input {value} does not fit in {self._num_lines} lines"
                )
            return value
        bits = list(value)
        if len(bits) != self._num_lines:
            raise CircuitError(
                f"expected {self._num_lines} input bits, got {len(bits)}"
            )
        return bits_to_int(bits)

    def simulate(self, value: BitVector) -> int:
        """Run the circuit on a classical input and return the output as int.

        ``value`` may be an integer bit vector or a sequence of bits
        (index ``i`` = line ``i``).
        """
        state = self._coerce_input(value)
        for gate in self._gates:
            state = gate.apply(state)
        return state

    def simulate_bits(self, value: BitVector) -> list[int]:
        """Like :meth:`simulate` but returns the output as a bit list."""
        return int_to_bits(self.simulate(value), self._num_lines)

    def truth_table(self) -> list[int]:
        """The full truth table: entry ``x`` holds ``simulate(x)``.

        Computed by the bitsliced range-input kernel
        (:func:`repro.circuits.bitslice.truth_table`), 64 inputs per pass
        over the gate list; a cascade containing a gate kind without a
        bitsliced implementation takes the scalar ``simulate`` loop.
        Exponential in ``num_lines``.
        """
        if bitslice.supports(self._gates):
            return bitslice.truth_table(self)
        return [self.simulate(value) for value in range(1 << self._num_lines)]

    def first_difference(self, other: "ReversibleCircuit") -> int | None:
        """The smallest input on which the two circuits differ, or ``None``.

        Exhaustive, but the bitsliced comparison stops at the first 64-input
        chunk that differs; cascades the kernel does not support are
        compared through their truth tables.
        """
        if self._num_lines != other._num_lines:
            raise CircuitError(
                "cannot compare circuits with different line counts "
                f"({self._num_lines} vs {other._num_lines})"
            )
        if bitslice.supports(self._gates) and bitslice.supports(other._gates):
            return bitslice.first_difference(self, other)
        pairs = zip(self.truth_table(), other.truth_table())
        return next(
            (value for value, (mine, theirs) in enumerate(pairs) if mine != theirs),
            None,
        )

    def is_identity(self) -> bool:
        """Whether the circuit computes the identity function (exhaustive)."""
        return self.first_difference(ReversibleCircuit(self._num_lines)) is None

    def functionally_equal(self, other: "ReversibleCircuit") -> bool:
        """Exhaustive functional comparison with another circuit."""
        if self._num_lines != other._num_lines:
            return False
        return self.first_difference(other) is None

    # -- composition and transformation --------------------------------------
    def inverse(self) -> "ReversibleCircuit":
        """The inverse circuit: gates reversed, each gate inverted."""
        gates = [gate.inverse() for gate in reversed(self._gates)]
        name = f"{self.name}^-1" if self.name else None
        return ReversibleCircuit(self._num_lines, gates, name)

    def then(self, other: "ReversibleCircuit") -> "ReversibleCircuit":
        """The cascade "``self`` followed by ``other``".

        In the paper's operator notation this is the product
        ``other @ self``; the method name follows the drawing order.
        """
        if other._num_lines != self._num_lines:
            raise CircuitError(
                "cannot compose circuits with different line counts "
                f"({self._num_lines} vs {other._num_lines})"
            )
        return ReversibleCircuit(
            self._num_lines, list(self._gates) + list(other._gates)
        )

    def __matmul__(self, other: "ReversibleCircuit") -> "ReversibleCircuit":
        """Operator-order composition: ``(A @ B)(x) == A(B(x))``."""
        return other.then(self)

    def remapped(self, line_map: Sequence[int]) -> "ReversibleCircuit":
        """Relabel every line ``i`` to ``line_map[i]``.

        ``line_map`` must be a permutation of ``range(num_lines)``.
        """
        if sorted(line_map) != list(range(self._num_lines)):
            raise CircuitError(
                "line_map must be a permutation of the circuit's lines"
            )
        gates = [gate.remapped(line_map) for gate in self._gates]
        return ReversibleCircuit(self._num_lines, gates, self.name)

    def with_lines(self, num_lines: int) -> "ReversibleCircuit":
        """The same cascade embedded into a circuit with more lines."""
        if num_lines < self._num_lines:
            raise CircuitError(
                f"cannot shrink a {self._num_lines}-line circuit to {num_lines} lines"
            )
        return ReversibleCircuit(num_lines, self._gates, self.name)

    def decomposed_swaps(self) -> "ReversibleCircuit":
        """A functionally identical circuit with every swap expanded to CNOTs."""
        gates: list[Gate] = []
        for gate in self._gates:
            if isinstance(gate, SwapGate):
                gates.extend(gate.to_cnots())
            else:
                gates.append(gate)
        return ReversibleCircuit(self._num_lines, gates, self.name)

    # -- dunder plumbing -----------------------------------------------------
    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __eq__(self, other: object) -> bool:
        """Structural equality (same lines, same gate cascade)."""
        if not isinstance(other, ReversibleCircuit):
            return NotImplemented
        return (
            self._num_lines == other._num_lines and self._gates == other._gates
        )

    def __hash__(self) -> int:
        return hash((self._num_lines, tuple(self._gates)))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<ReversibleCircuit{label} lines={self._num_lines} "
            f"gates={len(self._gates)}>"
        )

    def __str__(self) -> str:
        header = self.name or "circuit"
        lines = [f"{header} ({self._num_lines} lines, {len(self._gates)} gates)"]
        lines.extend(f"  {index}: {gate}" for index, gate in enumerate(self._gates))
        return "\n".join(lines)
