"""Reversible gates.

The paper (Section 2.1) represents reversible circuits as cascades of
multiple-controlled Toffoli (MCT) gates.  An MCT gate has ``k >= 0`` control
lines, each of positive polarity (fires on 1, drawn as a solid dot) or
negative polarity (fires on 0, drawn as an empty circle), and one target
line whose value is flipped exactly when every control is satisfied.  The
``k = 0`` and ``k = 1`` special cases are the NOT and CNOT gates.

For convenience the substrate also offers a :class:`SwapGate` (exchanging two
lines) and a controlled swap (Fredkin) built from MCT gates; both are used by
the line-permutation circuits ``C_pi`` and by the swap-test plumbing.

All gates are immutable value objects: they hash, compare by value, know how
to apply themselves to an integer bit vector and how to invert themselves
(every gate here is self-inverse).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import attrgetter

from repro.exceptions import GateError

__all__ = [
    "Control",
    "Gate",
    "MCTGate",
    "SwapGate",
    "not_gate",
    "cnot",
    "toffoli",
    "mct",
    "fredkin",
]


@dataclass(frozen=True, order=True)
class Control:
    """A control connection of an MCT gate.

    Attributes:
        line: index of the controlled circuit line (0-based).
        positive: ``True`` for a positive control (fires when the line is 1),
            ``False`` for a negative control (fires when the line is 0).
    """

    line: int
    positive: bool = True

    def __post_init__(self) -> None:
        if self.line < 0:
            raise GateError(f"control line must be non-negative, got {self.line}")

    def is_satisfied_by(self, value: int) -> bool:
        """Whether this control fires for the bit vector ``value``."""
        bit = (value >> self.line) & 1
        return bool(bit) == self.positive

    def negated(self) -> "Control":
        """The same control with flipped polarity."""
        return Control(self.line, not self.positive)

    def __str__(self) -> str:
        prefix = "" if self.positive else "~"
        return f"{prefix}x{self.line}"


_line_of = attrgetter("line")


class Gate(ABC):
    """Abstract base class of all reversible gates."""

    @property
    @abstractmethod
    def lines(self) -> frozenset[int]:
        """The set of circuit lines this gate touches (controls + targets)."""

    @property
    @abstractmethod
    def max_line(self) -> int:
        """The largest line index used by the gate."""

    @abstractmethod
    def apply(self, value: int) -> int:
        """Apply the gate to the integer bit vector ``value``."""

    @abstractmethod
    def inverse(self) -> "Gate":
        """The inverse gate (all gates in this module are self-inverse)."""

    @abstractmethod
    def remapped(self, line_map: Sequence[int]) -> "Gate":
        """A copy of the gate with every line ``i`` replaced by ``line_map[i]``."""


@dataclass(frozen=True)
class MCTGate(Gate):
    """A multiple-controlled Toffoli gate.

    Attributes:
        controls: tuple of :class:`Control` objects; may be empty (NOT gate).
        target: index of the target line whose value is conditionally flipped.
    """

    controls: tuple[Control, ...]
    target: int

    def __post_init__(self) -> None:
        if self.target < 0:
            raise GateError(f"target line must be non-negative, got {self.target}")
        controls = self.controls
        lines = {control.line for control in controls}
        if len(lines) != len(controls) or self.target in lines:
            self._reject_controls()
        # Normalise control order so structural equality ignores listing order.
        # Lines are distinct, so ordering by line alone matches ``Control``'s
        # (line, positive) order.
        object.__setattr__(self, "controls", tuple(sorted(controls, key=_line_of)))

    def _reject_controls(self) -> None:
        """Raise the :class:`GateError` for the first overlapping or repeated line."""
        seen: set[int] = set()
        for control in self.controls:
            if control.line == self.target:
                raise GateError(
                    f"control on line {control.line} overlaps the target line"
                )
            if control.line in seen:
                raise GateError(f"duplicate control on line {control.line}")
            seen.add(control.line)

    # -- basic structure ---------------------------------------------------
    @property
    def num_controls(self) -> int:
        """Number of control lines (``k`` in the paper's notation)."""
        return len(self.controls)

    @property
    def lines(self) -> frozenset[int]:
        return frozenset(control.line for control in self.controls) | {self.target}

    @property
    def max_line(self) -> int:
        # Controls are sorted by line, so the last one holds the largest.
        if self.controls:
            return max(self.target, self.controls[-1].line)
        return self.target

    @property
    def control_lines(self) -> tuple[int, ...]:
        """The control line indices in ascending order."""
        return tuple(control.line for control in self.controls)

    # -- semantics ----------------------------------------------------------
    def is_active(self, value: int) -> bool:
        """Whether all controls are satisfied by the bit vector ``value``."""
        return all(control.is_satisfied_by(value) for control in self.controls)

    def apply(self, value: int) -> int:
        if self.is_active(value):
            return value ^ (1 << self.target)
        return value

    def inverse(self) -> "MCTGate":
        """MCT gates are involutions, so the inverse is the gate itself."""
        return self

    def remapped(self, line_map: Sequence[int]) -> "MCTGate":
        controls = tuple(
            Control(line_map[control.line], control.positive)
            for control in self.controls
        )
        return MCTGate(controls, line_map[self.target])

    def with_polarity_flipped(self, line: int) -> "MCTGate":
        """Return a copy with the polarity of the control on ``line`` flipped.

        Raises :class:`GateError` if no control sits on ``line``.  This is the
        gate-level form of the "two NOT gates around a control flip its
        polarity" observation used in the Theorem 2 reduction.
        """
        new_controls = []
        found = False
        for control in self.controls:
            if control.line == line:
                new_controls.append(control.negated())
                found = True
            else:
                new_controls.append(control)
        if not found:
            raise GateError(f"gate has no control on line {line}")
        return MCTGate(tuple(new_controls), self.target)

    def __str__(self) -> str:
        if not self.controls:
            return f"NOT(x{self.target})"
        controls = ", ".join(str(control) for control in self.controls)
        return f"MCT([{controls}] -> x{self.target})"


@dataclass(frozen=True)
class SwapGate(Gate):
    """A gate exchanging the values of two lines.

    Line-permutation circuits ``C_pi`` are built from swaps.  A swap is
    logically equivalent to three CNOTs; keeping it as a primitive makes
    permutation circuits compact and their intent obvious.
    """

    line_a: int
    line_b: int

    def __post_init__(self) -> None:
        if self.line_a < 0 or self.line_b < 0:
            raise GateError("swap lines must be non-negative")
        if self.line_a == self.line_b:
            raise GateError("swap lines must differ")
        # Normalise so SwapGate(a, b) == SwapGate(b, a).
        low, high = sorted((self.line_a, self.line_b))
        object.__setattr__(self, "line_a", low)
        object.__setattr__(self, "line_b", high)

    @property
    def lines(self) -> frozenset[int]:
        return frozenset((self.line_a, self.line_b))

    @property
    def max_line(self) -> int:
        return self.line_b

    def apply(self, value: int) -> int:
        bit_a = (value >> self.line_a) & 1
        bit_b = (value >> self.line_b) & 1
        if bit_a == bit_b:
            return value
        return value ^ (1 << self.line_a) ^ (1 << self.line_b)

    def inverse(self) -> "SwapGate":
        return self

    def remapped(self, line_map: Sequence[int]) -> "SwapGate":
        return SwapGate(line_map[self.line_a], line_map[self.line_b])

    def to_cnots(self) -> tuple[MCTGate, MCTGate, MCTGate]:
        """Decompose the swap into the standard three-CNOT cascade."""
        return (
            cnot(self.line_a, self.line_b),
            cnot(self.line_b, self.line_a),
            cnot(self.line_a, self.line_b),
        )

    def __str__(self) -> str:
        return f"SWAP(x{self.line_a}, x{self.line_b})"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------
def not_gate(target: int) -> MCTGate:
    """The NOT gate on line ``target`` (an MCT gate with zero controls)."""
    return MCTGate((), target)


def cnot(control: int, target: int, positive: bool = True) -> MCTGate:
    """A CNOT with one control of the given polarity."""
    return MCTGate((Control(control, positive),), target)


def toffoli(control_a: int, control_b: int, target: int) -> MCTGate:
    """The standard (positively controlled) Toffoli gate."""
    return MCTGate((Control(control_a), Control(control_b)), target)


def mct(
    control_lines: Iterable[int],
    target: int,
    polarities: Iterable[bool] | None = None,
) -> MCTGate:
    """Build an MCT gate from control lines and optional polarities.

    Args:
        control_lines: the control line indices.
        target: the target line index.
        polarities: one boolean per control (``True`` = positive).  Defaults
            to all-positive.
    """
    control_lines = list(control_lines)
    if polarities is None:
        polarities = [True] * len(control_lines)
    else:
        polarities = list(polarities)
        if len(polarities) != len(control_lines):
            raise GateError(
                f"{len(control_lines)} controls but {len(polarities)} polarities"
            )
    controls = tuple(
        Control(line, positive) for line, positive in zip(control_lines, polarities)
    )
    return MCTGate(controls, target)


def fredkin(control: int, line_a: int, line_b: int) -> tuple[MCTGate, MCTGate, MCTGate]:
    """A controlled swap (Fredkin) as a three-gate MCT cascade."""
    return (
        cnot(line_b, line_a),
        MCTGate((Control(control), Control(line_a)), line_b),
        cnot(line_b, line_a),
    )
