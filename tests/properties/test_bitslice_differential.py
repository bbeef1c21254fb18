"""Differential harness: bitsliced evaluation vs. the scalar engine.

The bit-parallel path (``repro.circuits.bitslice``, surfaced as
``evaluate_many``) is an *optimisation*, never a second semantics: on
every circuit and every batch it must reproduce the scalar reference
(``circuit.simulate`` / ``oracle.peek``) bit for bit.  This harness
holds the two paths together over a seeded sweep of generated cases —
mixed MCT/CNOT/NOT cascades with negative controls and swaps, widths
from 1 to 24 lines, and ragged batch sizes straddling the 64-lane word
boundary — plus the inverse direction, line-remapped circuits, and the
validation/fallback edges.  The whole-domain kernel (range-input lanes
behind ``truth_table``, ``is_identity``, ``functionally_equal`` and
``find_distinguishing_input``) is swept over every width from 1 to 12,
across the lane mask of the six constant-pattern lines, including pairs
that differ only inside the last 64-input chunk.

Every case derives its rng from a fixed seed, so a failure reproduces
exactly; the sweep sizes below put the harness above 500 generated
cases in total.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits import bitslice
from repro.circuits.circuit import ReversibleCircuit
from repro.circuits.gates import (
    Control,
    Gate,
    MCTGate,
    SwapGate,
    cnot,
    mct,
    not_gate,
)
from repro.circuits.random import (
    random_line_permutation,
    random_mct_gate,
)
from repro.core.equivalence_check import find_distinguishing_input
from repro.exceptions import CircuitError
from repro.oracles import CircuitOracle

SEED = 20240711
#: Batch sizes straddling the 64-lane word boundary (1 word partial,
#: 1 word minus one lane, exactly 1 word, 1 word + 1 lane, 2 words).
BATCH_SIZES = (1, 63, 64, 65, 128)
#: Cases per (sweep, batch size) cell; three sweeps x five sizes puts
#: the harness at 3 * 5 * 40 = 600 generated cases.
CASES_PER_CELL = 40


def _case_rng(sweep: str, batch_size: int, case: int) -> random.Random:
    """A per-case rng derived from the module seed — failures replay."""
    return random.Random(f"{SEED}:{sweep}:{batch_size}:{case}")


def _random_mixed_circuit(rng: random.Random) -> ReversibleCircuit:
    """A 1-24 line cascade mixing MCT (any polarity), NOT/CNOT and SWAP."""
    num_lines = rng.randint(1, 24)
    num_gates = rng.randint(0, 4 * num_lines)
    circuit = ReversibleCircuit(num_lines, name="diff")
    for _ in range(num_gates):
        if num_lines >= 2 and rng.random() < 0.2:
            line_a, line_b = rng.sample(range(num_lines), 2)
            circuit.append(SwapGate(line_a, line_b))
        else:
            circuit.append(random_mct_gate(num_lines, rng))
    return circuit


class PhantomGate(Gate):
    """A user-defined gate kind (NOT on line 0) the kernel cannot compile."""

    @property
    def lines(self):
        return frozenset({0})

    @property
    def max_line(self):
        return 0

    def apply(self, value):
        return value ^ 1

    def inverse(self):
        return self

    def remapped(self, line_map):
        return self


def _random_batch(
    rng: random.Random, num_lines: int, size: int
) -> list[int]:
    return [rng.getrandbits(num_lines) for _ in range(size)]


class TestBitsliceMatchesScalar:
    """The core differential sweep: forward, inverse, and remapped."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_forward_sweep(self, batch_size):
        for case in range(CASES_PER_CELL):
            rng = _case_rng("forward", batch_size, case)
            circuit = _random_mixed_circuit(rng)
            values = _random_batch(rng, circuit.num_lines, batch_size)
            expected = [circuit.simulate(value) for value in values]
            assert bitslice.simulate_many(circuit, values) == expected, (
                f"case {case}: {circuit!r} diverges on batch of {batch_size}"
            )
            oracle = CircuitOracle(circuit)
            assert oracle.evaluate_many(values) == [
                oracle.peek(value) for value in values
            ]

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_inverse_sweep(self, batch_size):
        """The reversed cascade is bitsliced too, and round-trips."""
        for case in range(CASES_PER_CELL):
            rng = _case_rng("inverse", batch_size, case)
            circuit = _random_mixed_circuit(rng)
            inverse = circuit.inverse()
            values = _random_batch(rng, circuit.num_lines, batch_size)
            expected = [inverse.simulate(value) for value in values]
            assert bitslice.simulate_many(inverse, values) == expected
            # Round trip: C^{-1}(C(x)) = x, both legs bit-parallel.
            forward = bitslice.simulate_many(circuit, values)
            assert bitslice.simulate_many(inverse, forward) == values

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_remapped_sweep(self, batch_size):
        """Line-remapped gates (shuffled control/target lines) agree."""
        for case in range(CASES_PER_CELL):
            rng = _case_rng("remapped", batch_size, case)
            circuit = _random_mixed_circuit(rng)
            remapped = circuit.remapped(
                random_line_permutation(circuit.num_lines, rng).mapping
            )
            values = _random_batch(rng, remapped.num_lines, batch_size)
            assert bitslice.simulate_many(remapped, values) == [
                remapped.simulate(value) for value in values
            ]


class TestLaneEdges:
    """Word-boundary and degenerate-shape behaviour."""

    def test_empty_batch(self):
        circuit = ReversibleCircuit(3).append(not_gate(1))
        assert bitslice.simulate_many(circuit, []) == []
        assert CircuitOracle(circuit).evaluate_many([]) == []

    def test_gateless_circuit_is_identity(self):
        circuit = ReversibleCircuit(5)
        values = list(range(32))
        assert bitslice.simulate_many(circuit, values) == values

    def test_single_line_circuit(self):
        circuit = ReversibleCircuit(1).append(not_gate(0))
        assert bitslice.simulate_many(circuit, [0, 1, 1, 0]) == [1, 0, 0, 1]

    def test_duplicate_inputs_in_one_word(self):
        rng = random.Random(SEED)
        circuit = _random_mixed_circuit(rng)
        value = rng.getrandbits(circuit.num_lines)
        values = [value] * 64
        assert bitslice.simulate_many(circuit, values) == [
            circuit.simulate(value)
        ] * 64

    def test_pack_lanes_rejects_oversized_batch(self):
        with pytest.raises(CircuitError, match="64-lane"):
            bitslice.pack_lanes([0] * 65, 4)

    def test_wider_than_word_circuits_tile(self):
        """Circuits above 64 lines transpose in 64-line tiles."""
        rng = random.Random(SEED + 1)
        num_lines = 70
        circuit = ReversibleCircuit(num_lines)
        for _ in range(40):
            circuit.append(random_mct_gate(num_lines, rng, max_controls=3))
        circuit.append(SwapGate(2, 68))
        values = [rng.getrandbits(num_lines) for _ in range(65)]
        assert bitslice.simulate_many(circuit, values) == [
            circuit.simulate(value) for value in values
        ]


class TestValidationAndFallback:
    """Error parity with the scalar path, and the scalar fallback."""

    def test_out_of_range_input_raises_like_scalar(self):
        circuit = ReversibleCircuit(3).append(cnot(0, 1))
        with pytest.raises(CircuitError, match="does not fit in 3 lines"):
            bitslice.simulate_many(circuit, [2, 8])
        with pytest.raises(CircuitError, match="does not fit in 3 lines"):
            circuit.simulate(8)

    def test_negative_input_raises(self):
        circuit = ReversibleCircuit(3)
        with pytest.raises(CircuitError):
            bitslice.simulate_many(circuit, [-1])

    def test_unsupported_gate_kind_raises_in_compile(self):
        gate = PhantomGate()
        assert not bitslice.supports([gate])
        with pytest.raises(CircuitError, match="PhantomGate"):
            bitslice.compile_gates([gate])

        # The oracle capability falls back to the scalar loop and still
        # matches the reference answers exactly.
        circuit = ReversibleCircuit(2).append(gate).append(not_gate(1))
        oracle = CircuitOracle(circuit)
        assert oracle.evaluate_many([0, 1, 2, 3]) == [
            oracle.peek(value) for value in range(4)
        ]

    def test_compiled_cache_tracks_circuit_growth(self):
        """Appending gates after a batched call invalidates the cache."""
        circuit = ReversibleCircuit(4).append(cnot(0, 1))
        oracle = CircuitOracle(circuit)
        before = oracle.evaluate_many(list(range(16)))
        assert before == [circuit.simulate(value) for value in range(16)]
        circuit.append(mct([0, 2], 3)).append(not_gate(2))
        after = oracle.evaluate_many(list(range(16)))
        assert after == [circuit.simulate(value) for value in range(16)]
        assert after != before


#: Every width of the whole-domain sweep: 1-5 mask the constant-pattern
#: lines to a partial word, 6 fills exactly one word, 7-12 add chunks.
DOMAIN_WIDTHS = tuple(range(1, 13))
#: Generated cases per width in the whole-domain sweep.
DOMAIN_CASES = 4


def _domain_circuit(rng: random.Random, num_lines: int) -> ReversibleCircuit:
    circuit = ReversibleCircuit(num_lines, name="domain")
    for _ in range(rng.randint(0, 24)):
        if num_lines >= 2 and rng.random() < 0.2:
            circuit.append(SwapGate(*rng.sample(range(num_lines), 2)))
        else:
            circuit.append(random_mct_gate(num_lines, rng))
    return circuit


def _assert_domain_parity(c1: ReversibleCircuit, c2: ReversibleCircuit):
    """Every whole-domain query of the pair against ``simulate`` loops."""
    domain = range(1 << c1.num_lines)
    table1 = [c1.simulate(value) for value in domain]
    table2 = [c2.simulate(value) for value in domain]
    assert c1.truth_table() == table1
    assert c2.truth_table() == table2
    assert c1.is_identity() == (table1 == list(domain))
    expected = next(
        (value for value in domain if table1[value] != table2[value]), None
    )
    assert find_distinguishing_input(c1, c2) == expected
    assert c1.functionally_equal(c2) == (expected is None)


def _last_chunk_twin(
    circuit: ReversibleCircuit, rng: random.Random
) -> tuple[ReversibleCircuit, int]:
    """``circuit`` preceded by a gate that moves only inputs in its last chunk.

    The prepended MCT gate controls every line but a low target: lines 6
    and up positively (so only the last 64-input chunk fires) and lines
    0-5 with random polarity, which places the pair of swapped inputs at a
    random lane.  Returns the twin and the smaller swapped input.
    """
    num_lines = circuit.num_lines
    target = rng.randrange(min(num_lines, 6))
    controls = tuple(
        Control(line, line >= 6 or bool(rng.getrandbits(1)))
        for line in range(num_lines)
        if line != target
    )
    twin = ReversibleCircuit(num_lines, (MCTGate(controls, target),))
    pattern = sum(1 << c.line for c in controls if c.positive)
    return twin.extend(circuit.gates), pattern


class TestWholeDomainKernel:
    """Range-input tables and chunked comparisons against ``simulate``."""

    @pytest.mark.parametrize("num_lines", DOMAIN_WIDTHS)
    def test_random_pairs(self, num_lines):
        for case in range(DOMAIN_CASES):
            rng = _case_rng("domain", num_lines, case)
            c1 = _domain_circuit(rng, num_lines)
            c2 = _domain_circuit(rng, num_lines)
            _assert_domain_parity(c1, c2)
            _assert_domain_parity(c1, c1.copy())
            # Inverse-then-forward is the identity, built from real gates.
            _assert_domain_parity(c1.inverse().then(c1), c1)

    @pytest.mark.parametrize("num_lines", DOMAIN_WIDTHS)
    def test_pairs_differing_only_in_the_last_chunk(self, num_lines):
        for case in range(DOMAIN_CASES):
            rng = _case_rng("last-chunk", num_lines, case)
            circuit = _domain_circuit(rng, num_lines)
            twin, first = _last_chunk_twin(circuit, rng)
            assert first >= (1 << num_lines) - bitslice.LANE_WIDTH
            assert find_distinguishing_input(circuit, twin) == first
            assert find_distinguishing_input(twin, circuit) == first
            assert not circuit.functionally_equal(twin)
            _assert_domain_parity(circuit, twin)

    @pytest.mark.parametrize("num_lines", (1, 5, 6, 7, 12))
    def test_user_defined_gate_takes_the_scalar_fallback(self, num_lines):
        rng = _case_rng("phantom", num_lines, 0)
        mixed = _domain_circuit(rng, num_lines).append(PhantomGate())
        mixed.extend(_domain_circuit(rng, num_lines).gates)
        assert not bitslice.supports(mixed.gates)
        plain = _domain_circuit(rng, num_lines)
        _assert_domain_parity(mixed, plain)
        _assert_domain_parity(plain, mixed)
        _assert_domain_parity(mixed, mixed.copy().append(not_gate(0)))
        values = _random_batch(rng, num_lines, 65)
        assert bitslice.simulate_many(mixed, values) == [
            mixed.simulate(value) for value in values
        ]

    def test_range_words_are_the_packed_range(self):
        for num_lines in DOMAIN_WIDTHS:
            lanes = min(1 << num_lines, bitslice.LANE_WIDTH)
            for start in range(0, 1 << num_lines, bitslice.LANE_WIDTH):
                assert bitslice.range_words(
                    num_lines, start, (1 << lanes) - 1
                ) == bitslice.pack_lanes(
                    list(range(start, start + lanes)), num_lines
                )

    def test_width_mismatch(self):
        assert not ReversibleCircuit(3).functionally_equal(ReversibleCircuit(4))
        with pytest.raises(CircuitError, match="different line counts"):
            ReversibleCircuit(3).first_difference(ReversibleCircuit(4))
