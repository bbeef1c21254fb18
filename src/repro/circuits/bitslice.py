"""Bit-parallel ("bitsliced") evaluation of reversible circuits.

This module is the one engine for evaluating a reversible circuit on more
than a handful of inputs; :meth:`ReversibleCircuit.simulate
<repro.circuits.circuit.ReversibleCircuit.simulate>` (gate-object
``apply``, one input at a time) is the single scalar reference it is held
to by the differential harness in
``tests/properties/test_bitslice_differential.py``.

Up to :data:`LANE_WIDTH` input values are packed *per wire* into one
Python int used as a vector of single-bit lanes (bit ``j`` of the word for
line ``i`` is bit ``i`` of input ``j``), and every gate of the cascade is
then applied to all lanes at once with a handful of bitwise operations:

* **NOT** — XOR the target's word with the lane mask;
* **CNOT / MCT** — AND together the control words (complementing against
  the lane mask for negative controls) and XOR the resulting activity word
  into the target's word;
* **SWAP** — exchange the two line words.

Two input paths feed the lanes:

* **Arbitrary batches** (:func:`simulate_many`, :func:`evaluate_compiled`)
  transpose each 64-value chunk into lane words and back.
* **The whole domain** (:func:`truth_table`, :func:`first_difference`)
  walks all ``2**n`` inputs in 64-input chunks that need no input
  transpose: lines 0-5 of chunk ``k`` are six constant lane patterns
  (masked for ``n < 6``), and line ``i >= 6`` is all-ones or all-zeros
  according to bit ``i`` of the chunk's first input.  The full table
  unpacks the output words; the equality check compares two circuits'
  output words chunk by chunk without unpacking and stops at the first
  chunk that differs.

Every whole-function question — truth tables, ``is_identity``,
``functionally_equal``, witness verification, permutation tables for the
quantum oracles, exact fingerprints — is answered here (see
``docs/architecture.md``, "Bit-parallel evaluation").
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.circuits.gates import Gate, MCTGate, SwapGate
from repro.exceptions import CircuitError

if TYPE_CHECKING:
    from repro.circuits.circuit import ReversibleCircuit

__all__ = [
    "LANE_WIDTH",
    "supports",
    "pack_lanes",
    "unpack_lanes",
    "compile_gates",
    "apply_compiled",
    "evaluate_compiled",
    "simulate_many",
    "range_words",
    "truth_table",
    "first_difference",
]

#: Lanes per machine word.  Python ints are arbitrary precision, but 64
#: keeps each word inside one CPython "digit chunk" regime and matches the
#: uint64 framing the ROADMAP describes; longer batches are chunked.
LANE_WIDTH = 64

#: Compiled-op tags (see :func:`compile_gates`).
_OP_MCT = 0
_OP_SWAP = 1


def supports(gates: Iterable[Gate]) -> bool:
    """Whether every gate in ``gates`` has a bitsliced implementation.

    MCT (any control count / polarity) and SWAP cover everything the
    substrate produces; cascades with user-defined
    :class:`~repro.circuits.gates.Gate` subclasses fall back to the scalar
    reference (``ReversibleCircuit.truth_table`` and :func:`simulate_many`
    check this).
    """
    return all(isinstance(gate, (MCTGate, SwapGate)) for gate in gates)


def _transpose_steps() -> tuple[tuple[int, int], ...]:
    """Shift/mask constants for the 64x64 bit-matrix transpose.

    Step ``k`` swaps, inside every ``2k x 2k`` tile, the upper-right
    ``k x k`` block (rows ``i`` with ``i mod 2k < k``, columns ``j`` with
    ``j mod 2k >= k``) with the lower-left one; the paired bits sit
    ``63 * k`` positions apart in the row-major layout.  Applying the six
    steps transposes the whole matrix in O(log) big-int operations.
    """
    steps = []
    k = LANE_WIDTH // 2
    while k:
        period = 2 * k
        col_pattern = 0
        for col in range(LANE_WIDTH):
            if col % period >= k:
                col_pattern |= 1 << col
        mask = 0
        for row in range(LANE_WIDTH):
            if row % period < k:
                mask |= col_pattern << (LANE_WIDTH * row)
        steps.append(((LANE_WIDTH - 1) * k, mask))
        k //= 2
    return tuple(steps)


_TRANSPOSE_STEPS = _transpose_steps()
_TILE_BYTES = LANE_WIDTH * (LANE_WIDTH // 8)


def _transpose_tile(x: int) -> int:
    """Transpose one 64x64 bit matrix held row-major in a single int."""
    for shift, mask in _TRANSPOSE_STEPS:
        t = ((x >> shift) ^ x) & mask
        x ^= t ^ (t << shift)
    return x


def pack_lanes(values: Sequence[int], num_lines: int) -> list[int]:
    """Transpose a batch of input values into per-line lane words.

    ``result[line]`` holds bit ``line`` of ``values[j]`` at bit position
    ``j``.  The batch must not exceed :data:`LANE_WIDTH` values; inputs are
    assumed to be validated (non-negative, fitting in ``num_lines`` bits).
    Widths up to 64 lines ride the O(log) big-int transpose; wider
    circuits transpose 64 lines per tile.
    """
    if len(values) > LANE_WIDTH:
        raise CircuitError(
            f"batch of {len(values)} values exceeds the {LANE_WIDTH}-lane "
            "word width; chunk it (simulate_many does)"
        )
    row_bytes = (num_lines + 63) // 64 * 8
    data = b"".join(value.to_bytes(row_bytes, "little") for value in values)
    words: list[int] = []
    for tile_start in range(0, row_bytes, 8):
        tile = _transpose_tile(
            int.from_bytes(
                b"".join(
                    data[offset + tile_start : offset + tile_start + 8]
                    for offset in range(0, len(data), row_bytes)
                ),
                "little",
            )
        )
        lines_in_tile = min(num_lines - 8 * tile_start, LANE_WIDTH)
        words.extend(
            struct.unpack_from(
                f"<{lines_in_tile}Q", tile.to_bytes(_TILE_BYTES, "little")
            )
        )
    return words


def unpack_lanes(words: Sequence[int], num_lines: int, count: int) -> list[int]:
    """Transpose per-line lane words back into ``count`` output values."""
    values: list[int] = []
    for tile_index in range(0, num_lines, LANE_WIDTH):
        rows = words[tile_index : tile_index + LANE_WIDTH]
        tile = _transpose_tile(
            int.from_bytes(struct.pack(f"<{len(rows)}Q", *rows), "little")
        )
        lanes = struct.unpack_from(
            f"<{count}Q", tile.to_bytes(_TILE_BYTES, "little")
        )
        if tile_index:
            values = [
                value | lane << tile_index for value, lane in zip(values, lanes)
            ]
        else:
            values = list(lanes)
    return values


def compile_gates(gates: Iterable[Gate]) -> list[tuple]:
    """Lower a gate cascade to flat bitwise-op descriptors.

    Each MCT gate becomes ``(_OP_MCT, positive_lines, negative_lines,
    target)`` and each swap ``(_OP_SWAP, line_a, line_b, None)``, so the
    hot loop touches no gate objects, controls or method dispatch.

    Raises:
        CircuitError: for gate kinds without a bitsliced implementation
            (use :func:`supports` to detect and fall back).
    """
    ops: list[tuple] = []
    for gate in gates:
        if isinstance(gate, MCTGate):
            positive = tuple(c.line for c in gate.controls if c.positive)
            negative = tuple(c.line for c in gate.controls if not c.positive)
            ops.append((_OP_MCT, positive, negative, gate.target))
        elif isinstance(gate, SwapGate):
            ops.append((_OP_SWAP, gate.line_a, gate.line_b, None))
        else:
            raise CircuitError(
                f"no bitsliced implementation for {type(gate).__name__}"
            )
    return ops


def apply_compiled(
    ops: Sequence[tuple], words: list[int], lane_mask: int
) -> list[int]:
    """Apply compiled ops to lane words in place (and return them).

    ``lane_mask`` has one bit set per occupied lane; it is both the
    "all controls satisfied" seed and the complement mask for negative
    controls, so ragged batches never leak activity into empty lanes.
    """
    for tag, first, second, target in ops:
        if tag == _OP_MCT:
            active = lane_mask
            for line in first:
                active &= words[line]
            for line in second:
                active &= words[line] ^ lane_mask
            words[target] ^= active
        else:
            words[first], words[second] = words[second], words[first]
    return words


def evaluate_compiled(
    ops: Sequence[tuple], num_lines: int, values: Sequence[int]
) -> list[int]:
    """Run pre-compiled ops over a batch of already-validated inputs.

    The chunk/pack/apply/unpack pipeline of :func:`simulate_many` without
    the validation and compilation steps, for callers (``CircuitOracle``)
    that validate upstream and cache the compiled ops across calls.
    """
    outputs: list[int] = []
    for start in range(0, len(values), LANE_WIDTH):
        chunk = values[start : start + LANE_WIDTH]
        lane_mask = (1 << len(chunk)) - 1
        words = pack_lanes(chunk, num_lines)
        apply_compiled(ops, words, lane_mask)
        outputs.extend(unpack_lanes(words, num_lines, len(chunk)))
    return outputs


def simulate_many(
    circuit: ReversibleCircuit, values: Sequence[int]
) -> list[int]:
    """Evaluate ``circuit`` on every value of a batch, 64 lanes at a time.

    Exactly equivalent to ``[circuit.simulate(v) for v in values]`` —
    the differential property harness holds the two paths byte-identical —
    but one pass over the gate list serves up to :data:`LANE_WIDTH`
    inputs.  Inputs are validated with the same error as the scalar path;
    a cascade containing a gate kind without a bitsliced implementation is
    evaluated by that scalar loop.

    Raises:
        CircuitError: on out-of-range inputs.
    """
    num_lines = circuit.num_lines
    values = list(values)
    for value in values:
        if value < 0 or value >> num_lines:
            raise CircuitError(
                f"input {value} does not fit in {num_lines} lines"
            )
    if not supports(circuit.gates):
        return [circuit.simulate(value) for value in values]
    ops = compile_gates(circuit.gates)
    return evaluate_compiled(ops, num_lines, values)


#: Lane words of lines 0-5 for the 64 consecutive inputs of one chunk:
#: bit ``j`` of pattern ``i`` is bit ``i`` of ``j``.
_RANGE_PATTERNS = tuple(
    sum(1 << lane for lane in range(LANE_WIDTH) if lane >> line & 1)
    for line in range(6)
)


def range_words(num_lines: int, start: int, lane_mask: int) -> list[int]:
    """Lane words of the consecutive inputs ``start, start + 1, ...``.

    ``start`` is a multiple of :data:`LANE_WIDTH` and ``lane_mask`` has one
    bit per input of the chunk.  No transpose is needed: lines 0-5 are the
    constant :data:`_RANGE_PATTERNS` (masked, for chunks narrower than 64
    lanes), and every higher line is constant across the chunk, so its word
    is all-ones or all-zeros by the line's bit of ``start``.
    """
    words = [pattern & lane_mask for pattern in _RANGE_PATTERNS[:num_lines]]
    words.extend(
        lane_mask if start >> line & 1 else 0 for line in range(6, num_lines)
    )
    return words


def _domain_chunks(num_lines: int) -> tuple[range, int, int]:
    """Chunk starts, lanes per chunk and lane mask covering ``2**n`` inputs."""
    size = 1 << num_lines
    lanes = min(size, LANE_WIDTH)
    return range(0, size, LANE_WIDTH), lanes, (1 << lanes) - 1


def truth_table(circuit: ReversibleCircuit) -> list[int]:
    """The full truth table of an MCT/SWAP cascade: entry ``x`` is ``C(x)``.

    Runs the compiled cascade over the range-input chunks and unpacks
    their output words.  Callers check :func:`supports` first
    (``ReversibleCircuit.truth_table`` falls back to the scalar loop).
    """
    num_lines = circuit.num_lines
    ops = compile_gates(circuit.gates)
    starts, lanes, lane_mask = _domain_chunks(num_lines)
    table: list[int] = []
    for start in starts:
        words = range_words(num_lines, start, lane_mask)
        apply_compiled(ops, words, lane_mask)
        table.extend(unpack_lanes(words, num_lines, lanes))
    return table


def first_difference(
    circuit_a: ReversibleCircuit, circuit_b: ReversibleCircuit
) -> int | None:
    """The smallest input on which two same-width cascades differ, or None.

    Both circuits run over the same range-input chunks and their output
    words are compared without unpacking; the walk stops at the first
    chunk that differs, whose lowest differing lane (the lowest set bit of
    the OR of the per-line XORs) names the input.  Callers check
    :func:`supports` for both cascades first.
    """
    num_lines = circuit_a.num_lines
    ops_a = compile_gates(circuit_a.gates)
    ops_b = compile_gates(circuit_b.gates)
    starts, _, lane_mask = _domain_chunks(num_lines)
    for start in starts:
        words_a = range_words(num_lines, start, lane_mask)
        words_b = list(words_a)
        apply_compiled(ops_a, words_a, lane_mask)
        apply_compiled(ops_b, words_b, lane_mask)
        if words_a != words_b:
            differing = 0
            for word_a, word_b in zip(words_a, words_b):
                differing |= word_a ^ word_b
            return start + (differing & -differing).bit_length() - 1
    return None
